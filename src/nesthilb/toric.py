"""Torus data of target surfaces.

A surface is its fixed points' chart weights; its GKM graph (``_edges``),
bundle checks and Fano-ness are read from them alone.  Built-in surfaces
come from their fans (projective plane, quadric, Hirzebruch), custom ones
from a JSON descriptor of chart and bundle weights per fixed point.

Conventions, pinned by the calibration tests: chart weights w1, w2 are
the torus weights of the two local coordinate functions, the dual basis
of the cone spanned by rays v_i, v_j, and the weight of O(D) with
D = sum a_i D_i at its fixed point is a_i * w1 + a_j * w2, the one
lambda with <lambda, v_i> = a_i, <lambda, v_j> = a_j.  The canonical
bundle (every a_i = -1) then has weight -w1 - w2 at every fixed point.

Charts, bundles and surfaces are checked when made, immutable by convention.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .charalg import Slotted, Weight
from .errors import DependentChartWeights, SpecializationPole, WrongCoefficientCount
from .sampling import certified_value, make_rng, random_point

_PAIRING_NPOINTS = 2  # specialization points that must agree


def _det(v1: tuple[int, int], v2: tuple[int, int]) -> int:
    return v1[0] * v2[1] - v1[1] * v2[0]


class FixedPointChart(Slotted):
    """Weights of the two local coordinate functions at a fixed point."""

    __slots__ = ("w1", "w2")

    def __init__(self, w1: Weight, w2: Weight):
        self.w1, self.w2 = w1, w2
        if _det(self.w1, self.w2) == 0:
            raise DependentChartWeights(f"chart weights {self.w1}, {self.w2}")


class EquivariantLineBundle(Slotted):
    """A line bundle on ``surface``, given by its fiber weight at each fixed
    point; checked once, when made, across every GKM edge (``_check_edges``)."""

    __slots__ = ("label", "weights", "surface")
    _unshown = ("surface",)

    def __init__(self, label: str, weights: tuple[Weight, ...], surface: ToricSurfaceDescriptor):
        self.label, self.weights, self.surface = label, weights, surface
        if len(weights) != len(surface.charts):
            raise ValueError(f"bundle {label!r} has {len(weights)} weights, but "
                             f"surface {surface.name!r} has {len(surface.charts)} fixed points")
        try:
            _check_edges(surface.charts, {label: weights})
        except ValueError as err:
            raise ValueError(f"surface {surface.name!r}: {err}") from None


class ToricSurfaceDescriptor(Slotted):
    # rays: the fan rays, counterclockwise; chart i is the dual basis of the cone of
    # rays i, i+1, and ``line_bundle`` only counts them.  None for file-based descriptors
    __slots__ = ("name", "charts", "rays", "named_bundles")

    def __init__(self, name: str, charts: tuple[FixedPointChart, ...],
                 rays: tuple[tuple[int, int], ...] | None = None,
                 named_bundles: tuple[tuple[str, tuple[Weight, ...]], ...] = ()):
        self.name, self.charts, self.rays, self.named_bundles = name, charts, rays, named_bundles
        if len(self.charts) < 3:
            raise ValueError("a projective toric surface has at least 3 fixed points")

    @property
    def euler_number(self) -> int:
        return len(self.charts)

    @property
    def fano(self) -> bool:
        """Every invariant curve (toric divisor) has self-intersection >= -1."""
        return all(m >= -1 for *_, m in _edges(self.charts))

    def bundle(self, label: str) -> EquivariantLineBundle:
        if label == "O":
            return trivial_bundle(self)
        if label == "K":
            return canonical_bundle(self)
        for name, weights in self.named_bundles:
            if name == label:
                return EquivariantLineBundle(label, weights, self)
        raise KeyError(f"no bundle named {label!r} on surface {self.name!r}")

    def check_bundles(self, *bundles: EquivariantLineBundle | None) -> None:
        """Refuse a bundle made on another surface."""
        for L in filter(None, bundles):
            if L.surface != self:
                raise ValueError(f"bundle {L.label!r} was made on surface {L.surface.name!r}, "
                                 f"but is used on surface {self.name!r}")


def _from_fan(name: str, rays: list[tuple[int, int]]) -> ToricSurfaceDescriptor:
    """Surface from a complete smooth fan, rays in cyclic order: chart i is
    the dual basis of the cone of rays i, i+1, read with 1/det = det."""
    charts = []
    for vi, vj in zip(rays, rays[1:] + rays[:1]):
        det = _det(vi, vj)
        if abs(det) != 1:
            raise ValueError(f"surface {name!r}: the cone of rays {vi}, {vj} is not smooth (det {det})")
        charts.append(FixedPointChart(Weight(det * vj[1], -det * vj[0]),
                                      Weight(-det * vi[1], det * vi[0])))
    return ToricSurfaceDescriptor(name=name, charts=tuple(charts), rays=tuple(rays))


def surface_p2() -> ToricSurfaceDescriptor:
    """The projective plane: 3 fixed points."""
    return _from_fan("p2", [(1, 0), (0, 1), (-1, -1)])


def surface_p1xp1() -> ToricSurfaceDescriptor:
    """The quadric surface: 4 fixed points."""
    return _from_fan("p1xp1", [(1, 0), (0, 1), (-1, 0), (0, -1)])


def surface_hirzebruch(a: int) -> ToricSurfaceDescriptor:
    """The Hirzebruch surface F_a (F_0 is the quadric)."""
    if a < 0:
        raise ValueError("Hirzebruch parameter must be nonnegative")
    return _from_fan(f"f{a}", [(1, 0), (0, 1), (-1, a), (0, -1)])


def line_bundle(S: ToricSurfaceDescriptor, divisor_coeffs: list[int]) -> EquivariantLineBundle:
    """Equivariant O(D) for D = sum a_i D_i over the fan rays of S: at chart i,
    the cone of rays i, i+1, the weight a_i * w1 + a_{i+1} * w2, which pairs
    to a_i with v_i and to a_{i+1} with v_{i+1}."""
    if S.rays is None:
        raise WrongCoefficientCount(f"surface {S.name!r} has no fan data; use a named bundle")
    n = len(S.rays)
    if len(divisor_coeffs) != n:
        raise WrongCoefficientCount(f"surface {S.name!r} has {n} fan rays: expected {n} "
                                    f"divisor coefficients, got {len(divisor_coeffs)}")
    a = [_require_int(c, f"divisor coefficient {i}") for i, c in enumerate(divisor_coeffs)]
    weights = tuple(
        Weight(ai * c.w1.a + aj * c.w2.a, ai * c.w1.b + aj * c.w2.b)
        for c, ai, aj in zip(S.charts, a, a[1:] + a[:1])
    )
    label = "O(" + ",".join(str(c) for c in divisor_coeffs) + ")"
    return EquivariantLineBundle(label, weights, S)


def trivial_bundle(S: ToricSurfaceDescriptor) -> EquivariantLineBundle:
    return EquivariantLineBundle("O", tuple(Weight(0, 0) for _ in S.charts), S)


@cache
def canonical_bundle(S: ToricSurfaceDescriptor) -> EquivariantLineBundle:
    """Weight -w1 - w2 at each fixed point; built and checked once per surface."""
    return EquivariantLineBundle("K", tuple(-(c.w1 + c.w2) for c in S.charts), S)


def intersect(
    S: ToricSurfaceDescriptor,
    L: EquivariantLineBundle,
    Lp: EquivariantLineBundle,
    seed: int = 0,
) -> Fraction:
    """Poincare pairing <L, L'> by surface-level localization.

    Evaluated at several random integer specializations (each term is
    homogeneous of degree 0); all evaluations must agree exactly.
    """
    S.check_bundles(L, Lp)

    def evaluate(x: int, y: int) -> Fraction:
        total = Fraction(0)
        for chart, lw, lpw in zip(S.charts, L.weights, Lp.weights):
            d1 = chart.w1.value(x, y)
            d2 = chart.w2.value(x, y)
            if d1 == 0 or d2 == 0:
                raise SpecializationPole(f"chart pole at ({x}, {y})")
            total += Fraction(lw.value(x, y) * lpw.value(x, y), d1 * d2)
        return total

    rng = make_rng(seed)
    value, _ = certified_value(
        evaluate,
        lambda: random_point(rng),
        _PAIRING_NPOINTS,
        f"{S.name} pairing <{L.label}, {Lp.label}>",
    )
    return value


def _require_int(x, where: str) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{where}: expected an integer, got {x!r}")
    return x


def _parse_weight(obj, where: str) -> Weight:
    if not isinstance(obj, list) or len(obj) != 2:
        raise ValueError(f"{where}: expected a pair [a, b], got {obj!r}")
    return Weight(_require_int(obj[0], where), _require_int(obj[1], where))


def surface_from_json(text: str) -> ToricSurfaceDescriptor:
    """Parse a custom surface descriptor.

    Schema: { "name": str,
              "fixed_points": [ { "w1": [a,b], "w2": [a,b],
                                  "bundles": { "<label>": [a,b] } } ] }
    Integers only; floats are rejected.  Any other key is rejected, an
    "intersections" table too: pairings are always computed by
    localization.  Chart and bundle weights must satisfy the GKM
    conditions (``_check_edges``); K's then do too.
    """
    import json  # here, so that `import nesthilb` loads no json

    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("surface descriptor nests too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("surface descriptor must be a JSON object")
    if "intersections" in data:
        raise ValueError(
            "surface descriptor key 'intersections' is not supported: "
            "pairings are computed by localization"
        )
    if extra := sorted(data.keys() - {"name", "fixed_points"}):
        raise ValueError(f"surface descriptor key {extra[0]!r} is not supported")
    name = data.get("name")
    if not isinstance(name, str):
        raise ValueError("surface descriptor needs a string 'name'")
    points = data.get("fixed_points")
    if not isinstance(points, list) or len(points) < 3:
        raise ValueError("surface descriptor needs >= 3 fixed_points")

    charts = []
    per_label: dict[str, list[Weight]] = {}  # in sorted label order, set by fixed_points[0]
    for k, pt in enumerate(points):
        where = f"fixed_points[{k}]"
        if not isinstance(pt, dict):
            raise ValueError(f"{where}: expected an object, got {pt!r}")
        if extra := sorted(pt.keys() - {"w1", "w2", "bundles"}):
            raise ValueError(f"{where}: key {extra[0]!r} is not supported")
        w1 = _parse_weight(pt.get("w1"), where + ".w1")
        w2 = _parse_weight(pt.get("w2"), where + ".w2")
        try:
            charts.append(FixedPointChart(w1, w2))
        except DependentChartWeights as exc:
            raise DependentChartWeights(f"{where}: {exc}") from exc
        bundles = pt.get("bundles", {})
        if not isinstance(bundles, dict):
            raise ValueError(f"{where}.bundles must be an object")
        if reserved := sorted({"O", "K"} & bundles.keys()):  # ``bundle`` returns the built-ins
            raise ValueError(f"{where}.bundles: label {reserved[0]!r} is reserved for a built-in")
        if k and sorted(bundles) != list(per_label):
            raise ValueError(f"{where}: bundle labels differ between fixed points")
        for lab in sorted(bundles):
            weight = _parse_weight(bundles[lab], f"{where}.bundles[{lab}]")
            per_label.setdefault(lab, []).append(weight)

    _check_edges(charts, per_label)
    return ToricSurfaceDescriptor(
        name=name,
        charts=tuple(charts),
        named_bundles=tuple((lab, tuple(ws)) for lab, ws in per_label.items()),
    )


def _multiple(d: Weight, w: Weight) -> int | None:
    """The integer m with d = m * w, or None (w is nonzero)."""
    m, r = divmod(d.a * w.a + d.b * w.b, w.a**2 + w.b**2)
    return None if r or _det(d, w) else m


@cache
def _edges(charts: tuple[FixedPointChart, ...]) -> tuple[tuple[int, Weight, int, int], ...]:
    """The GKM graph: the edge along chart weight w at fixed point k, with
    other weight v, ends at the one fixed point j with chart weights -w and
    v - m * w, m an integer (the curve's self-intersection), as (k, w, j, m).
    Every chart weight needs an opposite before any end is resolved.  Cached per chart tuple."""
    pairs = [(k, w, v) for k, c in enumerate(charts) for w, v in ((c.w1, c.w2), (c.w2, c.w1))]
    for k, w, _ in pairs:
        if not any(u == -w for _, u, _ in pairs):
            raise ValueError(f"fixed_points[{k}]: chart weight {[*w]} has no other fixed point "
                             f"with chart weight {[*-w]}")
    edges = []
    for k, w, v in pairs:
        ends = [(j, m) for j, u, o in pairs if u == -w and (m := _multiple(v - o, w)) is not None]
        if len(ends) != 1:
            found = ", ".join(f"fixed_points[{j}]" for j, _ in ends) or "none"
            raise ValueError(f"fixed_points[{k}]: the edge along {[*w]} needs one end with chart "
                             f"weights {[*-w]} and {[*v]} - m * {[*w]}, m an integer; found {found}")
        edges.append((k, w, *ends[0]))
    return tuple(edges)


def _check_edges(charts: list[FixedPointChart], bundles: dict[str, list[Weight]]) -> None:
    """The GKM conditions, naming the fixed point that breaks them: each
    bundle's weights differ by an integer multiple of w across every edge
    (k, w, j, m) of ``_edges``; K's always do, by -(2 + m) * w."""
    for k, w, j, _ in _edges(tuple(charts)):
        for lab, ws in bundles.items():
            if _multiple(d := ws[k] - ws[j], w) is None:
                raise ValueError(
                    f"fixed_points[{k}]: bundle {lab!r} weights here and at fixed_points[{j}] "
                    f"differ by {[*d]}, not a multiple of the chart weight {[*w]}"
                )


def surface_from_file(path: str) -> ToricSurfaceDescriptor:
    with open(path, "r", encoding="utf-8") as fh:
        return surface_from_json(fh.read())
