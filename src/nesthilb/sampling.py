"""Seeded integer specialization points for the equivariant parameters,
and the one loop that certifies a localization sum from them.

Integer points; exact because every summand is homogeneous of degree 0
in (s1, s2): the rational point (a/b, c/d) and the integer point
(a*d, c*b) lie on one line through the origin and give the same value.
"""

from __future__ import annotations

import random
from typing import Callable, TypeVar

from .errors import NonConstantSum, SpecializationExhausted, SpecializationPole

MAX_ENTRY = 10**4
MAX_REDRAWS = 32

Point = tuple[int, int]
V = TypeVar("V")  # an exact value, or a table of them


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_point(rng: random.Random) -> Point:
    return rng.randint(1, MAX_ENTRY), rng.randint(1, MAX_ENTRY)


def certified_value(
    evaluate: Callable[[int, int], V],
    draw: Callable[[], Point],
    npoints: int,
    where: str,
) -> tuple[V, tuple[Point, ...]]:
    """The common value of ``evaluate`` at npoints pole-free draws, and the
    points used.  A draw that hits a SpecializationPole is replaced, up to
    MAX_REDRAWS draws per point; SpecializationExhausted names the last
    point drawn and its pole.  Values that differ raise NonConstantSum,
    which for a table (a dict of values) names the first entry that differs.
    """
    values: list[V] = []
    points: list[Point] = []
    for _ in range(npoints):
        for _attempt in range(MAX_REDRAWS):
            point = draw()
            try:
                values.append(evaluate(*point))
            except SpecializationPole as pole:
                last = f"{point} ({pole})"
                continue
            points.append(point)
            break
        else:
            raise SpecializationExhausted(
                f"no pole-free specialization in {MAX_REDRAWS} draws on {where}; last point {last}"
            )
    if any(v != values[0] for v in values[1:]):
        if isinstance(values[0], dict):  # a table: name its first entry that moved
            key = next(k for k in values[0] if any(v[k] != values[0][k] for v in values))
            where, values = f"{where} entry {key}", [v[key] for v in values]
        detail = ", ".join(f"{v} at ({x}, {y})" for v, (x, y) in zip(values, points))
        raise NonConstantSum(f"localization sum not constant on {where}: {detail}")
    return values[0], tuple(points)
