"""Structural identities assembled from localization invariants.

Each check compares two independently computed exact quantities: a
nested-scheme localization sum against either a closed-form product
expansion (the generating-function check), a product-of-Hilbert-schemes
localization with an extra top Chern factor, or a single Hilbert scheme
with a tautological twist.  The dimension check (case3) compares with
2n + 1 the tangent rank that every (n+1, n) configuration shares, read
off the engine's local terms, whose configurations it counts as the
engine does.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .errors import InconsistentTangent, InvalidNesting, NestHilbError
from .fixedchar import local_pairs
from .integrate import _config_counts, _Grading, _terms_of_size
from .integrate import (
    IntegrandSpec,
    InvariantResult,
    integrate,
    integrate_hilb,
    top_chern_em,
    top_chern_taut,
    total_chern_em,
)
from .toric import (
    EquivariantLineBundle,
    ToricSurfaceDescriptor,
    canonical_bundle,
    intersect,
)


class CheckReport(NamedTuple):
    name: str
    # (n1, n2, lhs, rhs) per compared entry
    entries: tuple[tuple[int, int, Fraction, Fraction], ...]
    configs_evaluated: int = 0
    millis: int = 0  # wall time, set by the CLI
    # informational reports record agreement but are never asserted
    # (identity only stated for Fano surfaces)
    informational: bool = False

    @property
    def passed(self) -> bool:
        return all(lhs == rhs for _, _, lhs, rhs in self.entries)


def _table_keys(nmax: int):
    return [(n1, n2) for n1 in range(nmax + 1) for n2 in range(n1 + 1)]


def theorem7_lhs(
    S: ToricSurfaceDescriptor,
    M: EquivariantLineBundle,
    nmax: int,
    seed: int = 0,
) -> InvariantResult:
    """Signed nested-scheme integrals of the total Chern class of the
    extension class twisted by M, every n2 <= n1 <= nmax in one call."""
    res = integrate(S, nmax, nmax, IntegrandSpec("nested", (total_chern_em(M),)), seed=seed)
    signed = {(n1, n2): (-1) ** (n1 + n2) * v for (n1, n2), v in res.values.items()}
    return res._replace(values=signed)


def theorem7_rhs(
    S: ToricSurfaceDescriptor,
    M: EquivariantLineBundle,
    nmax: int,
    seed: int = 0,
) -> dict[tuple[int, int], Fraction]:
    """Closed-form product expansion.

    prod_{n>0} (1 - q2^(n-1) q1^n)^A (1 - (q1 q2)^n)^B, with
    A = <K, K-M> = K^2 - K.M and B = <K-M, M> - e = K.M - M^2 - e,
    expanded exactly to q1-degree nmax.
    """
    if nmax < 0:
        raise InvalidNesting(f"invalid nmax {nmax}")
    K = canonical_bundle(S)
    KK, KM, MM = (intersect(S, L, Lp, seed=seed) for L, Lp in ((K, K), (K, M), (M, M)))
    A = KK - KM
    B = KM - MM - S.euler_number
    if A.denominator != 1 or B.denominator != 1:
        raise NestHilbError(f"non-integral A={A}, B={B} on {S.name} bundle {M.label}")
    A, B = A.numerator, B.numerator

    factors = [(m, expo) for n in range(1, nmax + 1) for m, expo in (((n, n - 1), A), ((n, n), B))]
    series = _eta_product(factors, nmax)
    return {key: Fraction(series.get(key, 0)) for key in _table_keys(nmax)}


def _binomial(m: int, k: int) -> int:
    """Generalized binomial coefficient C(m, k) for any integer m, k >= 0."""
    if m >= 0:
        return comb(m, k)
    return (-1) ** k * comb(k - m - 1, k)


def _eta_product(factors, nmax: int) -> dict[tuple[int, int], int]:
    """prod (1 - q1^m1 q2^m2)^E over ``factors`` ((m1, m2), E), m1, m2 >= 0
    not both 0, as {(n1, n2): coefficient} cut at (nmax, nmax), one factor's
    binomial series sum_k (-1)^k C(E, k) q1^(k m1) q2^(k m2) at a time."""
    series = {(0, 0): 1}
    for (m1, m2), expo in factors:
        out = dict(series)
        for k in range(1, nmax // max(m1, m2) + 1):
            c = (-1) ** k * _binomial(expo, k)
            for (a, b), coeff in series.items():
                if c and a + k * m1 <= nmax and b + k * m2 <= nmax:
                    out[a + k * m1, b + k * m2] = out.get((a + k * m1, b + k * m2), 0) + coeff * c
        series = out
    return series


def theorem7_check(
    S: ToricSurfaceDescriptor,
    M: EquivariantLineBundle,
    nmax: int,
    seed: int = 0,
) -> CheckReport:
    lhs = theorem7_lhs(S, M, nmax, seed=seed)
    rhs = theorem7_rhs(S, M, nmax, seed=seed)
    entries = tuple((n1, n2, value, rhs[(n1, n2)]) for (n1, n2), value in lhs.values.items())
    return CheckReport("theorem7", entries, configs_evaluated=sum(lhs.config_counts.values()))


def theorem5_check(
    S: ToricSurfaceDescriptor,
    M: EquivariantLineBundle,
    n1: int,
    n2: int,
    seed: int = 0,
    workers: int = 1,
) -> CheckReport:
    """Nested integral vs product integral with the extra top Chern factor.

    The identity is stated for Fano surfaces (``S.fano``); on other
    surfaces agreement is reported as informational, not asserted.
    ``workers`` is validated and has no effect.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    lhs = integrate(S, n1, n2, IntegrandSpec("nested", (total_chern_em(M),)), seed=seed)
    rhs = integrate(
        S, n1, n2, IntegrandSpec("product", (total_chern_em(M), top_chern_em())), seed=seed
    )
    entries = ((n1, n2, lhs.value, rhs.value),)
    configs = lhs.config_count + rhs.config_count
    return CheckReport("theorem5", entries, configs_evaluated=configs, informational=not S.fano)


def case2_check(
    S: ToricSurfaceDescriptor,
    M: EquivariantLineBundle,
    nmax: int,
    seed: int = 0,
) -> CheckReport:
    """Inner-empty nested schemes S^[n,0] vs the Hilbert schemes S^[n]
    with a canonical tautological top Chern twist, up to the sign (-1)^n,
    for every n <= nmax: one nested call at (nmax, 0) and one
    ``integrate_hilb`` call at nmax."""
    lhs = integrate(S, nmax, 0, IntegrandSpec("nested", (total_chern_em(M),)), seed=seed)
    K = canonical_bundle(S)
    rhs = integrate_hilb(
        S, nmax, IntegrandSpec("product", (total_chern_em(M), top_chern_taut(K))), seed=seed
    )
    entries = tuple(
        (n, 0, lhs.values[(n, 0)], (-1) ** n * rhs.values[(n, 0)]) for n in range(nmax + 1)
    )
    configs = sum(lhs.config_counts.values()) + sum(rhs.config_counts.values())
    return CheckReport("case2", entries, configs_evaluated=configs)


def case3_check(S: ToricSurfaceDescriptor, nmax: int) -> CheckReport:
    """Dimension consistency of the (n+1, n) nested schemes, n <= nmax.

    Every configuration's tangent must have signed rank 2n + 1 and no zero
    weight.  An (n+1, n) configuration is one local pair of sizes (b+1, b)
    and pairs of sizes (c, c), and tangent classes add, so entry n holds
    exactly when every local pair of sizes (n, n) and (n+1, n) has signed
    rank a + b and no zero weight; its lhs is one (n+1, n) pair's rank.
    Only the local pairs of those sizes are built.  Configurations are
    counted, never enumerated (``_config_counts``), over them alone: the
    count stays exact, since every (n+1, n) configuration is made of them.
    InconsistentTangent names a failing pair and how many configurations
    fail.  The projectivized comparison itself is not computed.
    """
    if nmax < 0:
        raise InvalidNesting(f"invalid nmax {nmax}")
    spec = IntegrandSpec("nested")
    local = {k: _terms_of_size(spec, *k) for n in range(nmax + 1) for k in ((n, n), (n + 1, n))}
    keys = [(n + 1, n) for n in range(nmax + 1)]
    grading = _Grading(dict.fromkeys(keys, 0), n1=nmax + 1, n2=nmax, ucut=0, top=False)
    counts = _config_counts(local, len(S.charts), grading)
    # per local pair of sizes (a, b): signed rank a + b and no zero weight
    ok = {key: [t.signed_rank() == sum(key) and not t.zero_multiplicity() for t, _ in ts]
          for key, ts in local.items()}
    entries = []
    for n, key in enumerate(keys):
        bad = [(k, i) for k in ((n, n), key) for i, fine in enumerate(ok[k]) if not fine]
        if bad:
            k, i = bad[0]
            t, (outer, inner) = local[k][i][0], local_pairs(*k, "nested")[i]
            passing = {p: [x for x, fine in zip(local[p], fs) if fine] for p, fs in ok.items()}
            failing = counts[key] - _config_counts(passing, len(S.charts), grading)[key]
            raise InconsistentTangent(
                f"case3 on {S.name} at {key}: {failing} of {counts[key]} configurations fail; "
                f"local pair {list(outer.parts)}/{list(inner.parts)} of sizes {k} gives a tangent "
                f"of signed rank {t.signed_rank()} (expected {sum(k)}) and zero-weight "
                f"multiplicity {t.zero_multiplicity()}"
            )
        entries.append((*key, Fraction(local[key][0][0].signed_rank()), Fraction(2 * n + 1)))
    return CheckReport("case3", tuple(entries), configs_evaluated=sum(counts.values()))


def zprod_table(
    S: ToricSurfaceDescriptor,
    M: EquivariantLineBundle,
    nmax: int,
    seed: int = 0,
) -> InvariantResult:
    """Product-side generating series: total Chern of the untwisted
    extension class times total Chern of the M-twisted one, integrated
    over the product of Hilbert schemes, cut to n2 <= n1 <= nmax.

    There is no closed-form oracle; values are checked for exactness,
    constancy and integrality, and pinned as regression goldens.
    """
    spec = IntegrandSpec("product", (total_chern_em(), total_chern_em(M)))
    res = integrate(S, nmax, nmax, spec, seed=seed)
    keys = _table_keys(nmax)
    table = res._replace(values={k: res.values[k] for k in keys},
                         config_counts={k: res.config_counts[k] for k in keys})
    for (n1, n2), value in table.values.items():
        if value.denominator != 1:
            raise NestHilbError(f"non-integral zprod {value} on {S.name} at ({n1}, {n2})")
    return table
