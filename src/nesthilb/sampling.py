"""Seeded integer specialization points for the equivariant parameters,
and the one loop that certifies a localization sum from them.

Integer points; exact because every summand is homogeneous of degree 0
in (s1, s2): the rational point (a/b, c/d) and the integer point
(a*d, c*b) lie on one line through the origin and give the same value.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

from .errors import NonConstantSum, SpecializationExhausted, SpecializationPole

MAX_ENTRY = 10**4
MAX_REDRAWS = 32

Point = tuple[int, int]


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


def random_point(rng: random.Random) -> Point:
    return rng.randint(1, MAX_ENTRY), rng.randint(1, MAX_ENTRY)


def certified_value(
    evaluate: Callable[[int, int], Fraction],
    draw: Callable[[], Point],
    npoints: int,
    where: str,
) -> tuple[Fraction, tuple[Point, ...]]:
    """The common value of ``evaluate`` at npoints pole-free draws, and the
    points used.  A draw that hits a SpecializationPole is replaced, up to
    MAX_REDRAWS draws per point; values that differ raise NonConstantSum.
    """
    values: list[Fraction] = []
    points: list[Point] = []
    for _ in range(npoints):
        for _attempt in range(MAX_REDRAWS):
            point = draw()
            try:
                values.append(evaluate(*point))
            except SpecializationPole:
                continue
            points.append(point)
            break
        else:
            raise SpecializationExhausted(
                f"no pole-free specialization in {MAX_REDRAWS} draws on {where}"
            )
    if any(v != values[0] for v in values[1:]):
        detail = ", ".join(f"{v} at ({x}, {y})" for v, (x, y) in zip(values, points))
        raise NonConstantSum(f"localization sum not constant on {where}: {detail}")
    return values[0], tuple(points)
